"""Integration layer: singular-aware 1D quadrature, FTC checks, dependence
triangle, Green-identity verifier (the last two from ``paper_checks``)."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speculus import quad
from speculus.expr import (AffineForm, EvalDomainError, Opaque, Var, add, eval_array, eval_expr,
                           normalize_affine, parse)
from speculus.piecewise import PiecewiseFn, from_expression
from speculus.quad import (
    MAX_DEPTH,
    QUAD_TOL,
    QuadratureError,
    _edge_breaks,
    adaptive_panel,
    integrate_1d,
    integrate_triangle,
)

from paper_checks import TypeIIIRegion, antiderivative_check, green_check

X = ("x",)
XY = ("x", "y")
XT = ("x", "t")


class TestIntegrate1D:
    def test_sgn_over_minus1_2(self):
        f = from_expression(parse("sgn(x)", X), X)
        assert integrate_1d(f, -1.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_abs_exact(self):
        f = from_expression(parse("abs(x)", X), X)
        assert integrate_1d(f, -2.0, 3.0) == pytest.approx(6.5, abs=1e-10)

    def test_orientation(self):
        f = from_expression(parse("abs(x)", X), X)
        assert integrate_1d(f, 3.0, -2.0) == pytest.approx(-6.5, abs=1e-10)

    def test_plain_callable(self):
        assert integrate_1d(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("a, b", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (math.inf, 0.0)])
    def test_rejects_non_finite_bounds(self, a, b):
        f = from_expression(parse("abs(x)", X), X)
        for g in (f, math.sin):
            with pytest.raises(QuadratureError) as got:
                integrate_1d(g, a, b)
            assert str(got.value) == f"integration bounds [{a}, {b}] are not finite"

    def test_singular_points(self):
        f = from_expression(parse("abs(x - 1) + abs(2*x + 3)", X), X)
        assert _edge_breaks(f.forms, (None,), -5.0, 5.0) == pytest.approx([-5.0, -1.5, 1.0, 5.0])

    @given(
        st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4)
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, a, b, c):
        f = from_expression(parse("abs(x) - sgn(x - 1)", X), X)
        whole = integrate_1d(f, a, c)
        split = integrate_1d(f, a, b) + integrate_1d(f, b, c)
        assert whole == pytest.approx(split, abs=1e-9)


class TestAntiderivativeCheck:
    def test_sgn_abs_pair(self):
        f = from_expression(parse("sgn(x)", X), X)
        F = from_expression(parse("abs(x)", X), X)
        assert antiderivative_check(f, F, -1.0, 2.0) <= 1e-10

    def test_abs_q_pair(self):
        f = from_expression(parse("abs(x)", X), X)
        F = from_expression(parse("(1/2)*x*abs(x)", X), X)
        assert antiderivative_check(f, F, -2.0, 1.5) <= 1e-10

    def test_wrong_antiderivative_detected(self):
        f = from_expression(parse("sgn(x)", X), X)
        F = from_expression(parse("abs(x) + x", X), X)
        assert antiderivative_check(f, F, -1.0, 2.0) > 0.5


class TestDependenceTriangle:
    def test_rejects_nonpositive_height(self):
        f = from_expression(parse("1 + 0*x + 0*t", XT), XT)
        for t0 in (0.0, -1.0):
            with pytest.raises(QuadratureError, match="dependence triangle needs t0 > 0"):
                integrate_triangle(f, 0.0, t0)

    @pytest.mark.parametrize("x0, t0", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 1.0), (-math.inf, 1.0)])
    def test_rejects_non_finite_apex(self, x0, t0):
        """A NaN triangle clips to no cell and gave 0.0; an infinite one
        refined to MAX_DEPTH with an estimate gap of nan."""
        f = from_expression(parse("abs(x - t) + 1", XT), XT)
        with pytest.raises(QuadratureError) as got:
            integrate_triangle(f, x0, t0)
        assert str(got.value) == f"dependence triangle of ({x0}, {t0}) is not finite"

    @pytest.mark.parametrize("x0, t0", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0)])
    def test_characteristic_rejects_non_finite_apex(self, x0, t0):
        """(inf, 1) gave 0.9999999999999999: f evaluates to 1 at x = inf."""
        f = from_expression(parse("abs(x - t) + 1", XT), XT)
        with pytest.raises(QuadratureError) as got:
            quad.characteristic_integral(f, 1.0, x0, t0)
        assert str(got.value) == f"characteristic path from ({x0}, {t0}) is not finite"

    def test_constant_force_area(self):
        f = from_expression(parse("1 + 0*x + 0*t", XT), XT)
        for x0, t0 in ((0.0, 1.0), (2.0, 0.5), (-1.0, 2.0)):
            assert integrate_triangle(f, x0, t0) == pytest.approx(
                t0 * t0, abs=1e-10
            )

    def test_polynomial_oracle(self):
        # apex (0,1): int_0^1 int_{s-1}^{1-s} (x^2 + t) dx dt = 1/6 + 1/3
        f = from_expression(parse("x^2 + t", XT), XT)
        assert integrate_triangle(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_step_force_half_area(self):
        # force supported on x > 0 cuts the apex-(0,1) triangle in half
        f = from_expression(parse("(1 + sgn(x))/2 + 0*t", XT), XT)
        assert integrate_triangle(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_characteristic_step(self):
        # jump along x - t = 0 inside the apex-(1,1) triangle:
        # region x > t has area 3/2 of the total 1
        f = from_expression(parse("(1 + sgn(x - t))/2", XT), XT)
        # triangle apex (1,1): base [0,2]; the line t = x crosses it.
        # area where x > t: integrate 1 over {0 < t < 1, t < x < 2 - t}
        # intersected with x > t -> int_0^1 (2 - 2t) dt = 1... the region
        # x > t within the triangle is bounded by x from t to 2-t: width
        # 2 - 2t, total 1.
        assert integrate_triangle(f, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def _pw(text, variables=XY):
    return from_expression(parse(text, variables), variables)


class TestGreenCheck:
    def test_q_fixture_exact_value(self):
        # P = q(x), Q = 0 on [-1,1]^2: both sides equal 2
        P = _pw("(1/2)*x*abs(x) + 0*y")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion.from_rectangle(-1.0, 1.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert lhs == pytest.approx(2.0, abs=1e-8)
        assert rhs == pytest.approx(2.0, abs=1e-8)
        assert gap <= 1e-8
        assert class_ok

    def test_smooth_fixture(self):
        P = _pw("x^2*y")
        Q = _pw("x*sin(y)")
        R = TypeIIIRegion.from_rectangle(0.0, 2.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert class_ok
        # oracle: iint (2xy - x*cos(y)) over [0,2]x[-1,1] = -4*sin(1)
        assert lhs == pytest.approx(-4.0 * math.sin(1.0), abs=1e-8)

    def test_symmetric_kinks_cancel(self):
        P = _pw("abs(x) + 0*y")
        Q = _pw("abs(y) + 0*x")
        R = TypeIIIRegion.from_rectangle(-1.0, 1.0, -1.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert class_ok

    def test_q_in_second_slot(self):
        # P = 0, Q = q(y) on [-2,1]x[0,3]: both sides equal -13.5
        P = _pw("0*x + 0*y")
        Q = _pw("(1/2)*y*abs(y) + 0*x")
        R = TypeIIIRegion.from_rectangle(-2.0, 1.0, 0.0, 3.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert lhs == pytest.approx(-13.5, abs=1e-8)
        assert gap <= 1e-8
        assert class_ok

    def test_diagonal_singular_line(self):
        P = _pw("abs(x - y)")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion.from_rectangle(0.0, 1.0, 0.0, 1.0)
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert class_ok

    def test_parabolic_type_iii_region(self):
        # region between y = x^2 and y = 1 over [-1,1]
        P = _pw("x*y")
        Q = _pw("0*x + 0*y")
        R = TypeIIIRegion(
            -1.0, 1.0,
            lambda x: x * x, lambda x: 1.0,
            0.0, 1.0,
            lambda y: -math.sqrt(y), lambda y: math.sqrt(y),
        )
        assert R.spot_check()
        lhs, rhs, gap, class_ok = green_check(P, Q, R)
        assert gap <= 1e-8
        # oracle: iint y dA = int_{-1}^1 (1 - x^4)/2 dx = 4/5
        assert lhs == pytest.approx(0.8, abs=1e-8)
        assert class_ok

    def test_parabolic_region_both_boundary_terms(self):
        # between y = x^2 and y = 1: oint P dy = iint |x| dA = 1/2 along the
        # graphs x = -+sqrt(y), and oint Q dx = iint y dA = 4/5 along the
        # graphs y = x^2 and y = 1
        P = _pw("(1/2)*x*abs(x) + 0*y")
        Q = _pw("-(1/2)*y^2 + 0*x")
        zero = _pw("0*x + 0*y")
        R = TypeIIIRegion(
            -1.0, 1.0,
            lambda x: x * x, lambda x: 1.0,
            0.0, 1.0,
            lambda y: -math.sqrt(y), lambda y: math.sqrt(y),
        )
        for p, q, want in ((P, zero, 0.5), (zero, Q, 0.8), (P, Q, 1.3)):
            lhs, rhs, gap, class_ok = green_check(p, q, R)
            assert lhs == pytest.approx(want, abs=1e-8)
            assert rhs == pytest.approx(want, abs=1e-8)
            assert gap <= 1e-8 and class_ok

    def test_region_spot_check_rejects_mismatch(self):
        R = TypeIIIRegion(
            -1.0, 1.0,
            lambda x: 0.0, lambda x: 1.0,
            0.0, 1.0,
            lambda y: 0.0, lambda y: 0.5,  # wrong horizontal extent
        )
        assert not R.spot_check()


# ---------------------------------------------------------------------------
# Values against oracles that share no code with the engine


def _gauss(f, a, b, n):
    """The n-point Gauss-Legendre value of the integral of f over [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(0.5 * (a + b) + half * x) for x, w in zip(nodes, weights))


def _duffy_rule(g, tri, n):
    """The n x n Gauss-Legendre value of the integral of g(x, t) over the
    triangle tri = (A, B, C), on the square collapsed onto it by (u, v) ->
    A + u (B - A) + u v (C - B), whose Jacobian is u |det(B - A, C - B)|."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    (ax, at), (bx, bt), (cx, ct) = tri
    det = abs((bx - ax) * (ct - bt) - (bt - at) * (cx - bx))
    terms = []
    for u, wu in zip(0.5 * (nodes + 1.0), weights):
        for v, wv in zip(0.5 * (nodes + 1.0), weights):
            x, t = ax + u * (bx - ax) + u * v * (cx - bx), at + u * (bt - at) + u * v * (ct - bt)
            terms.append(0.25 * wu * wv * u * g(x, t))
    return det * math.fsum(terms)


def _mp_integral(f, points):
    """mpmath's quad at 30 digits of f from points[0] to points[-1], split
    at the points between (where f may jump or kink)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [mpmath.mpf(p) for p in points]))


def _exact_clip(poly, line, sign):
    """The part of the convex polygon (exact rational vertices) where sign *
    (a x + b t + c) >= 0, line = (a, b, c)."""
    a, b, c = line
    side = [sign * (a * x + b * t + c) for x, t in poly]
    out = []
    for i, (p, v) in enumerate(zip(poly, side)):
        q, w = poly[(i + 1) % len(poly)], side[(i + 1) % len(poly)]
        if v >= 0:
            out.append(p)
        if v * w < 0:
            out.append(tuple(pc + v / (v - w) * (qc - pc) for pc, qc in zip(p, q)))
    return out


def _exact_triangle(terms, x0, t0):
    """The exact integral over the dependence triangle of (x0, t0) of the sum
    of coef * kink(a*(x - px) + b*(t - pt)) * (p*(x - x0 + t) + k)^n over
    the terms (coef, kink, (a, b, px, pt), (p, k, n)), plus t^2:
    sympy integrates each branch, a polynomial, over each exactly clipped
    cell of the terms' lines, fanned into triangles."""
    sympy = pytest.importorskip("sympy")
    x, t, r, q = sympy.symbols("x t r q")
    R = sympy.Rational
    lines = [(R(a), R(b), -R(a) * R(px) - R(b) * R(pt)) for _, _, (a, b, px, pt), _ in terms]
    apex = (R(x0), R(t0))
    total = R(0)
    for signs in itertools.product((1, -1), repeat=len(terms)):
        poly = [(apex[0] - apex[1], R(0)), (apex[0] + apex[1], R(0)), apex]
        for line, sign in zip(lines, signs):
            poly = _exact_clip(poly, line, sign)
        branch = t ** 2
        for (coef, kink, _, factor), (a, b, c), sign in zip(terms, lines, signs):
            jump = sign * (a * x + b * t + c) if kink == "abs" else sign
            p, k, n = factor
            branch += R(coef) * jump * (R(p) * (x - apex[0] + t) + R(k)) ** n
        for B, C in zip(poly[1:], poly[2:]):  # no triangle when the cell is empty
            A = poly[0]
            at = {x: A[0] + r * (B[0] - A[0]) + q * (C[0] - A[0]),
                  t: A[1] + r * (B[1] - A[1]) + q * (C[1] - A[1])}
            det = abs((B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0]))
            # the integral of r^i q^j over r, q >= 0, r + q <= 1 is i! j! / (i + j + 2)!
            total += det * sum(c * R(math.factorial(i) * math.factorial(j), math.factorial(i + j + 2))
                               for (i, j), c in sympy.Poly(branch.subs(at), r, q).terms())
    return float(total)


def _n(v):
    return f"({v!r})"


DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3), (3, 2)]
LEAF = Opaque(lambda t: t * t, (Var("t"),))


# a factor's text around its linear argument, and its value at an mpmath number
FACTORS = {"one": ("1", lambda mp, v: 1), "exp": ("exp({})", lambda mp, v: mp.exp(v)),
           "cos": ("cos({})", lambda mp, v: mp.cos(v)),
           "sqrt": ("sqrt(1 + ({})^2)", lambda mp, v: mp.sqrt(1 + v * v))}


def _with_leaf(f, leaf):
    """The formula function f plus an Opaque leaf: a table of its pinned
    branches for every sign vector off the lines, each plus the leaf, and
    the source plus the leaf."""
    table = tuple((pat, add(f.match(pat), leaf))
                  for pat in itertools.product((1, -1), repeat=len(f.forms)))
    return replace(f, branches=table, source=add(f.source, leaf))


@st.composite
def triangle_case(draw):
    """1-3 abs/sgn lines through interior points of a dependence triangle,
    some far from the origin, each times a polynomial of degree 0-2, plus
    an Opaque leaf t^2 in every branch; the terms as ``_exact_triangle``
    takes them."""
    x0 = draw(st.sampled_from([0.0, 0.5, -3.25, 250.0, -10000.5]))
    t0 = draw(st.sampled_from([0.25, 1.0, 1.5]))
    terms, texts = [], []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(DIRECTIONS))
        px = x0 + draw(st.sampled_from([-0.375, -0.125, 0.0, 0.25])) * t0
        pt = draw(st.sampled_from([0.25, 0.375, 0.5])) * t0
        kink = draw(st.sampled_from(["abs", "sgn"]))
        coef = draw(st.sampled_from([-1.5, 0.5, 2.0]))
        p, k = draw(st.sampled_from([0.5, -0.25, 1.0])), draw(st.sampled_from([0.75, -1.0]))
        n = draw(st.integers(0, 2))
        terms.append((coef, kink, (a, b, px, pt), (p, k, n)))
        texts.append(f"{_n(coef)}*{kink}({a}*(x - {_n(px)}) + {b}*(t - {_n(pt)}))"
                     f"*({_n(p)}*(x - {_n(x0)} + t) + {_n(k)})^{n}")
    f = from_expression(parse(" + ".join(texts), XT), XT)
    return _with_leaf(f, LEAF), terms, x0, t0


@st.composite
def line_case(draw):
    """A 1D integrand with 1-3 abs/sgn kinks inside [a, b] (some far from
    the origin, either orientation) and an Opaque leaf; the same function
    at an mpmath number, and its kinks."""
    c = draw(st.sampled_from([0.0, 37.5, -5000.25]))
    w = draw(st.sampled_from([0.5, 2.0]))
    texts, terms = [], []
    for _ in range(draw(st.integers(1, 3))):
        d = c + draw(st.sampled_from([-0.75, -0.25, 0.125, 0.5])) * w
        kink = draw(st.sampled_from(["abs", "sgn"]))
        p, q = draw(st.sampled_from([0.5, -0.25, 1.0])), draw(st.sampled_from([0.75, -1.0]))
        text, factor = FACTORS[draw(st.sampled_from(sorted(FACTORS)))]
        texts.append(f"{kink}(x - {_n(d)})*" + text.format(f"{_n(p)}*(x - {_n(c)}) + {_n(q)}"))
        terms.append((abs if kink == "abs" else (lambda v: (v > 0) - (v < 0)), d, factor, p, q, c))
    f = _with_leaf(from_expression(parse(" + ".join(texts), X), X), Opaque(math.atan, (Var("x"),)))

    def exact(x):
        import mpmath

        return mpmath.atan(x) + sum(kink(x - d) * factor(mpmath, p * (x - c) + q)
                                    for kink, d, factor, p, q, c in terms)

    a, b = c - w, c + w
    return f, exact, sorted({d for _, d, *_ in terms}), *((b, a) if draw(st.booleans()) else (a, b))


class TestBitIdentity:
    @given(triangle_case())
    @settings(max_examples=25, deadline=None)
    def test_triangle_equals_exact_cells(self, case):
        f, terms, x0, t0 = case
        want = _exact_triangle(terms, x0, t0)
        assert abs(integrate_triangle(f, x0, t0) - want) <= QUAD_TOL * (1.0 + abs(want))

    @given(line_case())
    @settings(max_examples=25, deadline=None)
    def test_1d_matches_mpmath(self, case):
        """Split at its kinks, the integral agrees with mpmath's to QUAD_TOL.
        So does the same function as a plain callable, integrated whole: its
        kinks sit at dyadic fractions of [a, b], so halving meets each one at
        a panel end (test_nonconvergent_integral_raises has a jump that it
        never meets)."""
        f, exact, kinks, a, b = case
        want = math.copysign(1.0, b - a) * _mp_integral(exact, [min(a, b), *kinks, max(a, b)])
        mpf = pytest.importorskip("mpmath").mpf
        for g in (f, lambda x: float(exact(mpf(x)))):
            assert abs(integrate_1d(g, a, b) - want) <= QUAD_TOL * (1.0 + abs(want))

    def test_green_check_matches_mpmath(self):
        """Both sides against mpmath at 30 digits.  The boundary integrals
        split where P's lines cross the sides.  Off the lines the integrand
        of the left side is sgn(x - y) + sgn(x + 2y - 0.3) e^x - sgn(y - 0.2)
        cos x, whose integral over y is linear in where each sign flips;
        its integral over x splits where those points leave [c, d]."""
        mp = pytest.importorskip("mpmath")
        P = _pw("abs(x - y) + sgn(x + 2*y - 0.3)*exp(x)")
        Q = _pw("abs(y - 0.2)*cos(x)")
        a, b, c, d = -1.0, 1.5, -0.5, 1.0
        lhs, rhs, gap, class_ok = green_check(P, Q, TypeIIIRegion.from_rectangle(a, b, c, d))

        def within(lo, hi, *cuts):
            return [lo, *sorted(v for v in cuts if lo < v < hi), hi]

        sgn = lambda v: (v > 0) - (v < 0)
        p = lambda x, y: abs(x - y) + sgn(x + 2 * y - 0.3) * mp.exp(x)
        q = lambda x, y: abs(y - 0.2) * mp.cos(x)
        rhs_want = math.fsum([
            _mp_integral(lambda x: q(x, c), [a, b]),
            _mp_integral(lambda y: p(b, y), within(c, d, b, (0.3 - b) / 2)),
            -_mp_integral(lambda x: q(x, d), [a, b]),
            -_mp_integral(lambda y: p(a, y), within(c, d, a, (0.3 - a) / 2))])

        def signs_over_y(r):  # the integral of sgn(y - r) over [c, d]
            m = min(max(r, c), d)
            return (d - m) - (m - c)

        lhs_want = _mp_integral(
            lambda x: -signs_over_y(x) + mp.exp(x) * signs_over_y((0.3 - x) / 2)
            - mp.cos(x) * signs_over_y(0.2), within(a, b, c, d, 0.3 - 2 * c, 0.3 - 2 * d))
        for got, want in ((lhs, lhs_want), (rhs, rhs_want)):
            assert abs(got - want) <= QUAD_TOL * (1.0 + abs(want))
        assert gap == abs(lhs - rhs) and class_ok


class TestRuleTables:
    @pytest.mark.parametrize("n, nodes, weights", [
        (15, quad._GL_NODES, quad._GL_WEIGHTS), (8, quad._GL8_NODES, quad._GL8_WEIGHTS),
        (10, quad._GL10_NODES, quad._GL10_WEIGHTS), (7, quad._GL7_NODES, quad._GL7_WEIGHTS)])
    def test_literals_are_leggauss(self, n, nodes, weights):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.tolist() == want_nodes.tolist()
        assert weights.tolist() == want_weights.tolist()


class TestQuadratureErrors:
    def test_nonconvergent_panel(self, monkeypatch):
        """At MAX_DEPTH = 4 the step at 0.3 fails on the panel of width 1/16
        around it, with the gap between its 15- and 7-point values there."""
        step = lambda x: 1.0 if x > 0.3 else 0.0
        monkeypatch.setattr(quad, "MAX_DEPTH", 4)
        with pytest.raises(QuadratureError) as got:
            quad._integrate(lambda X: (X > 0.3) * 1.0, [-1.0, 0.0, 1.0, 2.0])
        gap = abs(_gauss(step, 0.25, 0.3125, 15) - _gauss(step, 0.25, 0.3125, 7))
        assert str(got.value) == (f"quadrature panel [0.25, 0.3125] failed to converge "
                                  f"(estimate gap {gap:.3e})")
        assert got.value.panel == (0.25, 0.3125)

    def test_nonconvergent_triangle(self, monkeypatch):
        """A jump hidden in an Opaque leaf never converges: the triangle at
        MAX_DEPTH raises QuadratureError with its corners."""
        step = Opaque(lambda x: 1e6 if x > 0.3 else 0.0, (Var("x"),))
        f = _with_leaf(from_expression(parse("0*x + 0*t", XT), XT), step)
        monkeypatch.setattr(quad, "MAX_DEPTH", 3)
        with pytest.raises(QuadratureError, match=r"^quadrature triangle .* failed to converge") as got:
            integrate_triangle(f, 0.0, 1.0)
        assert len(got.value.panel) == 3

    def test_nonconvergent_integral_raises(self):
        tall_step = lambda x: 1e6 if x > 0.3 else 0.0
        with pytest.raises(QuadratureError, match=r"^quadrature panel .* failed to converge") as got:
            integrate_1d(tall_step, 0.0, 1.0)
        lo, hi = got.value.panel
        assert lo < 0.3 < hi and hi - lo == 2.0 ** -MAX_DEPTH

    @pytest.mark.parametrize("g, value", [
        (lambda x: math.nan, "nan"), (lambda x: math.inf if x > 0.3 else 0.0, "inf")])
    def test_non_finite_rule_value_fails_at_once(self, g, value):
        """A NaN or infinite integrand value fails in the round that meets
        it, naming the cell and its rule values, instead of refining to
        MAX_DEPTH: one panel of 22 points here."""
        points = []
        with pytest.raises(QuadratureError) as got:
            integrate_1d(lambda x: points.append(x) or g(x), 0.0, 1.0)
        assert str(got.value) == (f"quadrature panel [0.0, 1.0] has a non-finite rule value "
                                  f"({value}, estimate {value})")
        assert got.value.panel == (0.0, 1.0) and len(points) == 22

    def test_non_finite_opaque_leaf_fails_at_once(self):
        f = _with_leaf(from_expression(parse("0*x + 0*t", XT), XT),
                       Opaque(lambda x: math.nan, (Var("x"),)))
        with pytest.raises(QuadratureError) as got:
            integrate_triangle(f, 0.0, 1.0)
        assert str(got.value) == ("quadrature triangle ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)) "
                                  "has a non-finite rule value (nan, estimate nan)")

    @pytest.mark.parametrize("text, x0, message", [
        ("sqrt(x + 0.5) + t", 0.0, "sqrt of negative value -0.46068408037178277"),
        ("sqrt(0.3 - x)*abs(x + t - 0.2) + t", 0.0,
         "sqrt of negative value -0.08507674201109572"),
        ("sqrt(0.3 - x)*abs(x + t - 0.2) + t", 0.1,
         "sqrt of negative value -0.10880012151527935"),
    ])
    def test_first_domain_error_of_depth_first_order(self, text, x0, message):
        f = from_expression(parse(text, XT), XT)
        with pytest.raises(EvalDomainError) as got:
            integrate_triangle(f, x0, 1.0)
        assert str(got.value) == message  # pinned: the first round, then batch order


class TestBatching:
    def test_off_line_triangle_needs_no_scalar_evaluation(self, monkeypatch):
        """The fan triangles of all four cells go through one
        ``adaptive_panel`` call, and each round takes each branch at its
        rows' points with one ``eval_array`` call: no ``evaluate`` call, no
        ``evaluate_many`` call.  The first round takes the 64 + 100 nodes of
        each fan triangle; each later one those of the four children of the
        triangles split in the round before, so it is no larger than four
        times that round.  sqrt(x + 1.1) is steep enough near x = -1 to need
        a second round."""
        f = from_expression(
            parse("abs(x - t + 0.25)*exp(0.5*x) + sgn(x + 2*t - 0.5)*sqrt(x + 1.1)", XT), XT)
        want = integrate_triangle(f, 0.0, 1.0)
        counts = {"evaluate": 0, "evaluate_many": 0}
        fans, rounds = [], []  # per adaptive_panel call its fan; per round its branches' sizes

        def counted(name):
            real = getattr(PiecewiseFn, name)

            def method(self, *args):
                counts[name] += 1
                return real(self, *args)
            return method

        for name in ("evaluate", "evaluate_many"):
            monkeypatch.setattr(PiecewiseFn, name, counted(name))
        real_array, real_panel, real_sums = quad.eval_array, quad.adaptive_panel, quad._duffy_sums

        def eval_array(e, cols, bad):
            rounds[-1].append((e, len(bad)))
            return real_array(e, cols, bad)

        def panel(sums, split, fan, *args):
            fans.append(len(fan))
            return real_panel(sums, split, fan, *args)

        def sums(g, tris, keys):
            rounds.append([])
            return real_sums(g, tris, keys)

        monkeypatch.setattr(quad, "eval_array", eval_array)
        monkeypatch.setattr(quad, "adaptive_panel", panel)
        monkeypatch.setattr(quad, "_duffy_sums", sums)
        assert integrate_triangle(f, 0.0, 1.0) == want
        assert counts["evaluate"] == counts["evaluate_many"] == 0
        cells = quad.clip_cells(f.forms, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert len(cells) == 4 and fans == [sum(len(poly) - 2 for _, poly in cells)]
        assert len(rounds) > 1
        first, *later = [sum(n for _, n in calls) for calls in rounds]
        assert first == 164 * fans[0]
        for branches in rounds:  # one call per branch and round
            assert len({id(e) for e, _ in branches}) == len(branches)
        for before, points in zip([first, *later], later):
            assert points % (4 * 164) == 0 and 0 < points <= 4 * before

    def test_exact_rule_takes_one_call_per_cell(self, monkeypatch):
        """On a cell where both rules are exact (a cubic branch) every
        triangle is accepted whole: one ``eval_array`` call per cell, at the
        64 + 100 nodes of each fan triangle."""
        f = from_expression(parse("abs(x - t + 0.25)*x^2 + sgn(x + 2*t - 0.5)*t", XT), XT)
        calls = []
        real_array = quad.eval_array
        monkeypatch.setattr(quad, "eval_array", lambda e, cols, bad: calls.append(len(bad))
                            or real_array(e, cols, bad))
        integrate_triangle(f, 0.0, 1.0)
        cells = quad.clip_cells(f.forms, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert calls == [164 * (len(poly) - 2) for _, poly in cells]

    def test_nonintegrable_line_fails_in_bounded_rounds(self, monkeypatch):
        """1/(x - 0.3) never converges along x = 0.3.  Refining whole levels
        would double the live triangles there each level toward MAX_DEPTH;
        rounds of at most ROUND_PANELS // 8, depth-first order first, fail at
        the first triangle at MAX_DEPTH in depth-first order: the one on the
        base, at x = 0.3, with the gap of its two Duffy rules."""
        f = from_expression(parse("1/(x - 0.3) + t", XT), XT)
        batches = []
        real_array = quad.eval_array
        monkeypatch.setattr(quad, "eval_array", lambda e, cols, bad: batches.append(len(bad))
                            or real_array(e, cols, bad))
        with pytest.raises(QuadratureError) as got:
            integrate_triangle(f, 0.0, 1.0)
        tri = ((0.2999999988824129, 0.0), (0.30000000074505806, 0.0),
               (0.2999999998137355, 9.313225746154785e-10))
        g = lambda x, t: 1.0 / (x - 0.3) + t
        gap = abs(_duffy_rule(g, tri, 10) - _duffy_rule(g, tri, 8))
        assert str(got.value) == f"quadrature triangle {tri} failed to converge (estimate gap {gap:.3e})"
        assert max(batches) <= 164 * (quad.ROUND_PANELS // 8)

    @pytest.mark.parametrize("text", [
        "sqrt(abs(x - 0.25*t))", "sqrt(abs(x - 0.25*t)) + sqrt(abs(x + t - 0.5))"])
    def test_small_rounds_give_the_same_total(self, text, monkeypatch):
        """Rounds that take a few live triangles at a time, of mixed depths,
        give bit for bit the total of the default rounds: each triangle's
        rule values do not depend on the batch, and ``fsum`` adds them in
        any order."""
        f = from_expression(parse(text, XT), XT)
        want = integrate_triangle(f, 0.0, 1.0)
        monkeypatch.setattr(quad, "ROUND_PANELS", 24)  # 3 triangles a round
        assert integrate_triangle(f, 0.0, 1.0) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_values_do_not_depend_on_the_batch(self, seed):
        """Refining several triangles together gives, bit for bit, the
        values each gives refined alone, however deep each one goes (row
        sums by a matrix-vector product fail this on most seeds)."""
        g = lambda X, T: np.exp(3.0 * X) - X * np.cos(5.0 * T) + np.sqrt(X + 1.05)
        tris = [tuple(map(tuple, tri)) for tri in
                np.random.default_rng(seed).uniform(-1.0, 1.0, (32, 3, 2)).tolist()]
        splits = []

        def split(tri):
            splits.append(tri)
            return quad._quarters(tri)

        def refine(*tris):
            return adaptive_panel(functools.partial(quad._duffy_sums, lambda X, T, _: g(X, T)),
                                  split, list(tris),
                                  quad.ROUND_PANELS // 8, str)

        together = refine(*tris)
        assert set(splits) - set(tris)  # some go past their first split
        assert together == [v for tri in tris for v in refine(tri)]


def _cell_by_cell(f, x0, t0):
    """The dependence-triangle integral with one ``adaptive_panel`` call per
    cell: the cell's fan alone, its branch by ``eval_array`` and, at the
    points that leaves, ``eval_expr``."""
    total = []
    for pat, poly in quad.clip_cells(f.forms, [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]):
        if quad._area(poly) == 0.0:
            continue

        def g(X, T, _, rhs=f.match(pat)):
            x, t = X.ravel(), T.ravel()
            bad = np.zeros(len(x), dtype=bool)
            values = eval_array(rhs, {"x": x, "t": t}, bad)
            for i in np.flatnonzero(bad).tolist():
                values[i] = eval_expr(rhs, {"x": float(x[i]), "t": float(t[i])})
            return values.reshape(X.shape)

        v = [(float(x), float(t)) for x, t in poly]
        total += adaptive_panel(functools.partial(quad._duffy_sums, g), quad._quarters,
                                [(v[0], p, q) for p, q in zip(v[1:], v[2:])],
                                quad.ROUND_PANELS // 8, str)
    return math.fsum(total)


@st.composite
def joint_case(draw):
    """1-3 abs/sgn lines through a dependence triangle, each times an exp,
    cos or sqrt factor, plus the Opaque leaf t^2: (f, x0, t0)."""
    x0 = draw(st.sampled_from([0.0, 0.5, -3.25, 250.0]))
    t0 = draw(st.sampled_from([0.25, 1.0, 1.5]))
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(DIRECTIONS))
        px = x0 + draw(st.sampled_from([-0.375, -0.125, 0.0, 0.25])) * t0
        pt = draw(st.sampled_from([0.25, 0.375, 0.5])) * t0
        kink = draw(st.sampled_from(["abs", "sgn"]))
        factor = FACTORS[draw(st.sampled_from(["exp", "cos", "sqrt"]))][0]
        p, k = draw(st.sampled_from([0.5, -0.25, 2.0])), draw(st.sampled_from([0.75, -1.0]))
        texts.append(f"{kink}({a}*(x - {_n(px)}) + {b}*(t - {_n(pt)}))*"
                     + factor.format(f"{_n(p)}*(x - {_n(x0)} + t) + {_n(k)}"))
    return _with_leaf(from_expression(parse(" + ".join(texts), XT), XT), LEAF), x0, t0


class TestJointCall:
    @given(joint_case())
    @settings(max_examples=30, deadline=None)
    def test_equals_cell_by_cell(self, case):
        """One engine call for all cells gives, bit for bit, the fsum of the
        cells integrated one call each, at any round size."""
        f, x0, t0 = case
        for panels in (16, 80, quad.ROUND_PANELS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quad, "ROUND_PANELS", panels)
                assert integrate_triangle(f, x0, t0) == _cell_by_cell(f, x0, t0), panels

    def test_error_of_the_earlier_round_across_cells(self, monkeypatch):
        """The cell x > 0 comes first, and its step at x = 0.3 never
        converges, so it fails at MAX_DEPTH = 2, in the third round; the
        cell x < 0 meets sqrt of a negative value in the first.  Cell by
        cell the first cell's error came first; in one call the first
        round's is raised."""
        step = Opaque(lambda x: 1e6 if x > 0.3 else 0.0, (Var("x"),))
        f = _with_leaf(from_expression(parse("abs(x) + sqrt(x + 0.5)", XT), XT), step)
        monkeypatch.setattr(quad, "MAX_DEPTH", 2)
        with pytest.raises(QuadratureError, match="failed to converge"):
            _cell_by_cell(f, 0.0, 1.0)
        with pytest.raises(EvalDomainError, match="^sqrt of negative value"):
            integrate_triangle(f, 0.0, 1.0)


def _clip_by_value(poly, form, sign):
    """Sutherland-Hodgman clip keeping sign * l(p) >= 0, each l(p) by
    ``AffineForm.value`` (an ``fsum``), twice per vertex."""
    out = []
    for cur, nxt in zip(poly, poly[1:] + poly[:1]):
        vc, vn = sign * form.value(cur), sign * form.value(nxt)
        if vc >= 0.0:
            out.append(cur)
        if (vc > 0.0 and vn < 0.0) or (vc < 0.0 and vn > 0.0):
            s = vc / (vc - vn)
            out.append((cur[0] + s * (nxt[0] - cur[0]), cur[1] + s * (nxt[1] - cur[1])))
    return out


COORD = st.floats(-1e4, 1e4, allow_subnormal=False)
COEF = st.floats(-8.0, 8.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)  # a finite form


@given(st.lists(st.tuples(COORD, COORD), min_size=3, max_size=7),
       st.tuples(COEF, COEF).filter(any), st.integers(0, 6), st.sampled_from((1, -1)))
@settings(max_examples=300, deadline=None)
def test_clip_by_plain_arithmetic_matches_form_value(poly, coeffs, on, sign):
    """``_clip`` takes each l(p) once, as a * x + b * t - c, and clips
    bitwise as ``AffineForm.value`` does, also where the line goes through
    a vertex (the form through vertex ``on``, when there is one)."""
    form = normalize_affine(coeffs, 0.0)[0]
    if on < len(poly):
        form = AffineForm(form.coeffs, form.coeffs[0] * poly[on][0] + form.coeffs[1] * poly[on][1])
    assert quad._clip(poly, form, sign) == _clip_by_value(poly, form, sign)


class TestOneEngine:
    def test_intervals_and_triangles_share_the_engine(self, monkeypatch):
        """Both go through the module-level ``adaptive_panel``: intervals
        split in halves, triangles in quarters."""
        arity = []
        real = quad.adaptive_panel

        def spy(sums, split, cells, *args):
            arity.append(len(split(cells[0])))
            return real(sums, split, cells, *args)

        monkeypatch.setattr(quad, "adaptive_panel", spy)
        assert integrate_1d(_pw("abs(x)", X), -1.0, 2.0) == pytest.approx(2.5, abs=1e-10)
        assert integrate_triangle(_pw("x^2 + t", XT), 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)
        assert arity == [2, 4]

    def test_exact_rule_takes_one_call_per_integral(self, monkeypatch):
        """Both Gauss rules are exact on a piecewise cubic, so every piece
        is accepted whole: one ``evaluate_many`` call takes the 7 + 15
        points of each of the three pieces."""
        f = _pw("abs(x)*x^2 + sgn(x - 1)*x", X)
        calls = []
        real = PiecewiseFn.evaluate_many
        monkeypatch.setattr(PiecewiseFn, "evaluate_many",
                            lambda self, cols: calls.append(len(cols[0])) or real(self, cols))
        assert integrate_1d(f, -1.0, 2.0) == pytest.approx(5.75, abs=1e-10)
        assert calls == [3 * 22]

    def test_integrand_error_of_the_round_that_meets_it(self):
        """f raises at 0.0625, the middle node of [0, 0.125], and at 0.625,
        that of [0.5, 0.75].  Depth-first recursion would meet [0, 0.125]
        first, refining [0, 0.25] before it turns to [0.5, 1]; rounds take
        [0, 0.25] and [0.5, 0.75] together in the third round and [0,
        0.125] in the fourth, so the third round's error is raised."""
        def f(x):
            if x in (0.0625, 0.625):
                raise ValueError(f"no value at {x}")
            return float(x > 0.1) + float(x > 0.7)  # numpy bools would add as "or"

        with pytest.raises(ValueError, match=r"^no value at 0\.625$"):
            integrate_1d(f, 0.0, 1.0)
